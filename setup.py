"""Build shim for the optional compiled sim kernel.

All project metadata lives in pyproject.toml; this file exists only to
declare the optional C extension backing
``Simulation(kernel="compiled-loop")``: the C message pool and the C tick
loop (``_ckernel.run_loop``). The extension is best-effort: a missing
compiler (or any build failure) degrades to a pure-Python install where
``repro.sim.HAS_COMPILED`` is False and the "compiled-loop" kernel raises
ConfigurationError at construction; an extension left over from a
checkout before ``run_loop`` existed counts as not built. Build it in
place with::

    python setup.py build_ext --inplace

CI also rebuilds it under ASan/UBSan (see the compiled-loop leg of
``.github/workflows/ci.yml``).
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Swallow compiler failures so pure-Python installs keep working."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any failure is non-fatal
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            f"warning: building repro.sim._ckernel failed ({exc}); "
            "falling back to the pure-Python packed kernel"
        )


setup(
    ext_modules=[
        Extension(
            "repro.sim._ckernel",
            sources=["src/repro/sim/_ckernel.c"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
