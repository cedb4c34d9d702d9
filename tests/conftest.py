"""The package is imported from src/ (pyproject's `pythonpath`); the CLI
tests start `python -m gapsolve` in child processes, which get src/ through
PYTHONPATH."""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
