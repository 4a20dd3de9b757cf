"""``python -m sepsets``: the command-line interface, as the ``sepsets``
script runs it."""

from .cli import main

raise SystemExit(main())
