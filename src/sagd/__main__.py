"""``python -m sagd``: the ``sagd`` command line."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
