"""`python -m stlmon` runs the command-line interface."""

from .cli import main

main()
