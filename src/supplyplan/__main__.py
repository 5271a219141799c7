"""``python -m supplyplan``: the command line of :mod:`supplyplan.cli`."""

from .cli import main

raise SystemExit(main())
