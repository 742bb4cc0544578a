"""Desk-scale laboratory for Bloch-band semiclassics in weak electromagnetic fields.

Modules cover the full pipeline: crystal lattices and Brillouin-zone grids,
plane-wave band structure, geometric band data (Berry connection and
curvature, Rammal-Wilkinson tensor), a grid-level magnetic Weyl calculus,
first-order Peierls effective Hamiltonians, semiclassical flows under
magnetic and curvature-corrected symplectic forms, quantum propagation
harnesses, and Harper/Hofstadter spectra.
"""

__version__ = "0.1.0"


class PeierlsError(Exception):
    """Base of the package's refusals: a run that raises one is refused (the
    CLI reports it and exits 1).  Each error class also keeps a builtin base
    (ValueError, RuntimeError or MemoryError), which callers may catch."""
