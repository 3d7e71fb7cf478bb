"""Make the checkout's package importable by ``python -m minq`` subprocesses.

``pythonpath`` in pyproject.toml only extends this process's ``sys.path``;
the CLI tests start new interpreters, which read ``PYTHONPATH`` instead.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
