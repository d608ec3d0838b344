"""Shared test set-up.

Under CI (the `CI` environment variable set), hypothesis prints the
`@reproduce_failure` line of every failing example, so that a failure
seen only there can be replayed locally.  The profile is built on the one
already active (hypothesis's own CI profile, where the installed version
has one), so examples, seeds and deadlines stay as they are.
"""

import os

from hypothesis import settings

settings.register_profile("print-blob", settings.default, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("print-blob")
