"""Smoothness tests for affine and projective varieties.

Implements a chart-descent smoothness test, a hybrid descent-then-Jacobian
mode, and the classical Jacobian criterion, over exact rationals and prime
fields, together with benchmark ideal families and a small CLI.
"""

from .fields import GF, QQ, FieldSpec
from .ring import Ring
from .poly import Polynomial, apply_linear_change, dehomogenize, variables
from .matrix import (PolyMatrix, adjugate, determinant, iter_minors,
                     jacobian)
from .groebner import (GroebnerBasis, Ideal, buchberger, ideal_membership,
                       krull_dimension, radical_membership)
from .limits import Budget, Limits
from .charts import (Chart, FrameData, descend, enumerate_frames,
                     relative_jacobian, singular_locus_ideal)
from .driver import (Config, Observer, Verdict, Witness,
                     projective_smoothness, run_parallel, smoothness_test)
from .bench import (BenchInstance, cyclic_polytope_sr,
                    random_coordinate_change, rational_normal_curve,
                    run_suite, veronese_ci)
from .parser import ideal_file_text, parse_ideal_file

__all__ = [
    "GF", "QQ", "FieldSpec", "Ring", "Polynomial", "apply_linear_change",
    "dehomogenize", "variables", "PolyMatrix",
    "adjugate", "determinant", "iter_minors", "jacobian",
    "GroebnerBasis", "Ideal", "buchberger", "ideal_membership",
    "krull_dimension", "radical_membership",
    "Budget", "Limits",
    "Chart", "FrameData", "descend",
    "enumerate_frames", "relative_jacobian", "singular_locus_ideal",
    "Config", "Observer", "Verdict", "Witness", "projective_smoothness",
    "run_parallel", "smoothness_test",
    "BenchInstance", "cyclic_polytope_sr", "random_coordinate_change",
    "rational_normal_curve", "run_suite", "veronese_ci",
    "ideal_file_text", "parse_ideal_file",
]

__version__ = "0.1.0"
