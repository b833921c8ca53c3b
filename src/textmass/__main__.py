"""`python -m textmass ...` runs the command line (workbench.main)."""
from .workbench import main

raise SystemExit(main())
