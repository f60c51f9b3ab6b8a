"""Test-session set-up shared by every test module.

Some tests start `python -m coinfo` in a child process whose working
directory is a temporary one. A relative `PYTHONPATH=src` does not
resolve there, so the absolute source path goes first in the environment
that those children inherit.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

_rest = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p and p != SRC]
os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_rest])
