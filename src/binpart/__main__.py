"""`python -m binpart ...`: the same command line as the `binpart` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
