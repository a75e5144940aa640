"""python3 -m hyperode: the command line."""
from .cli import main
raise SystemExit(main())
