"""Build script: compiles the optional scanning extension.

``src/rmra/_kernel_c.c`` is a hand-written CPython extension in plain C99,
so a C compiler and the Python headers are all the build needs. The package
works without it (a pure-Python scanner is selected at import time), so a
missing compiler only costs speed, not functionality.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

# The engine's compiler flags. tests/test_source_guards.py reads them from
# here and compiles the engine with them under -Werror.
EXTRA_COMPILE_ARGS = ["-O3"]


class optional_build_ext(build_ext):
    """Swallow C compiler failures; the pure-Python kernel takes over."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # CompileError, DistutilsPlatformError, ...
            warnings.warn(f"compiled kernel skipped ({exc}); using pure-Python fallback")


setup(
    ext_modules=[
        Extension(
            "rmra._kernel_c", ["src/rmra/_kernel_c.c"], extra_compile_args=EXTRA_COMPILE_ARGS
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
