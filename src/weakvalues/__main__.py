"""``python -m weakvalues``: the command-line front end of :mod:`weakvalues.cli`."""

from .cli import run

if __name__ == "__main__":
    run()
