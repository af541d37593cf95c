"""Set-up shared by every test module.

When a Hypothesis test fails, Hypothesis's pytest plugin imports
hypothesis.extra._patching to write a patch of the failing example.
Where libcst is installed, that import raises a DeprecationWarning from
mypy_extensions, and under -W error the warning ends the whole session
in INTERNALERROR, so no later test runs.  Importing the module once here,
with the warning ignored, leaves such a failure a plain FAILED.
"""

import contextlib
import warnings

pytest_plugins = ["pytester"]

with contextlib.suppress(ImportError), warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
