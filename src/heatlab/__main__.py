"""``python -m heatlab``: the command line of ``heatlab.cli``."""
from .cli import main

raise SystemExit(main())
