"""``python -m bias_lab``: the bias-lab command line (see bias_lab.cli)."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
