"""Run the pipeline CLI as ``python -m diverank``."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
