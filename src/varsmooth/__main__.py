"""Run the command line interface: ``python -m varsmooth ...``."""

from .cli import entry

if __name__ == "__main__":
    entry()
