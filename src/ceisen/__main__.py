"""`python -m ceisen`: the `ceisen` command without an installed console script."""

from .cli import entry

if __name__ == "__main__":
    entry()
