"""``python -m fastmis``: the command-line interface (see :mod:`fastmis.cli`)."""

from .cli import console_main

console_main()
