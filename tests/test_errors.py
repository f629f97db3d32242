"""Each error class states the CLI exit code it ends a run with."""

import inspect

from exindex import errors
from exindex.errors import ExindexError


def test_every_subclass_declares_a_usage_or_data_code():
    subclasses = [c for _, c in inspect.getmembers(errors, inspect.isclass)
                  if issubclass(c, ExindexError) and c is not ExindexError]
    assert subclasses
    for cls in subclasses:
        assert cls.__dict__.get("exit_code") in (2, 3), cls.__name__
    assert ExindexError.exit_code == 4
