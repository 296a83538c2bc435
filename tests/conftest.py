"""Test-session set-up.

When a `@given` test fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching` to offer a patch with the failing example.
That module imports libcst, whose import chain emits a DeprecationWarning
(from mypy_extensions). With `filterwarnings = ["error"]` the warning
becomes an exception inside pytest's report hook, which aborts the whole
run with INTERNALERROR before the later tests run. Importing the module
once here, with that warning ignored, leaves the plugin nothing to warn
about; every other warning is still an error.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin offers no patch
        pass
