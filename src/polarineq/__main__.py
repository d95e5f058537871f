"""``python -m polarineq``: the command-line interface."""
from .cli import entrypoint
entrypoint()
