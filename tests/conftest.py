import sys
from pathlib import Path

# Tests import the shared oracle helpers as a plain module.
sys.path.insert(0, str(Path(__file__).resolve().parent))

# Property tests draw a fixed, bounded set of examples and keep no example
# database, so a run is repeatable and its time bounded. hypothesis is
# optional; its tests skip without it.
try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile(
        "fedsim", derandomize=True, max_examples=60, deadline=None, database=None
    )
    settings.load_profile("fedsim")
