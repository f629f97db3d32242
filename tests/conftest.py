"""One hypothesis profile for every property test: no deadline, since an
example's run time moves with the host's load, and no example database,
so a run writes no files.  Each test sets its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("exindex", deadline=None, database=None)
settings.load_profile("exindex")
