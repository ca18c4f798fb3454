"""Import the CLI before any test module loads NumPy.

``bvmlab.cli`` pins BLAS to one thread per process unless the environment
already sets a count, and the pin only takes effect if it runs before NumPy
loads its BLAS.  Test modules import NumPy first thing, so importing the CLI
here makes the suite run with the CLI's BLAS threading.
"""
import bvmlab.cli  # noqa: F401
