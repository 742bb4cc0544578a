"""Only fiber.py knows the plane-wave layout.

The rest of the package reads a band family through BandStructure's
interface (kgrid, energies, guard_energies, n_bands, frame, translate,
shifted_hamiltonian), so a second fiber family, such as a two-orbital
lattice model, runs through the same geometry.  No other module of
src/peierls_lab may import the basis or its matrix terms (LAYOUT_IMPORTS),
by name or as an attribute of the fiber module, or read the coefficient
layout of a basis (LAYOUT_ATTRIBUTES).  The modules are parsed with ast, not
imported, as in tests/test_package_holds_what_runs.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "peierls_lab"
OWNER = "fiber"
LAYOUT_IMPORTS = {"PlaneWaveBasis", "fiber_terms"}
LAYOUT_ATTRIBUTES = {"offsets", "index_of", "gvectors", "shift_matrix"}


def layout_reads(sources: dict) -> list:
    """(module, line, name) of every import of LAYOUT_IMPORTS and every read
    of LAYOUT_IMPORTS or LAYOUT_ATTRIBUTES as an attribute, in the modules of
    sources ({module: source text}) other than OWNER."""
    found = []
    for module, text in sorted(sources.items()):
        if module == OWNER:
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names if a.name in LAYOUT_IMPORTS]
            elif isinstance(node, ast.Attribute):
                names = [node.attr] if node.attr in LAYOUT_IMPORTS | LAYOUT_ATTRIBUTES else []
            else:
                continue
            found += [(module, node.lineno, n) for n in names]
    return found


def test_scan_finds_a_planted_layout_read():
    sources = {
        "fiber": ("class PlaneWaveBasis:\n"
                  "    def index_of(self, n):\n"
                  "        return self.offsets[n]\n"
                  "def fiber_terms(potential, basis):\n"
                  "    return basis.gvectors()\n"),
        "geometry": ("from .fiber import BandStructure, fiber_terms\n"
                     "def rw(bands):\n"
                     "    return bands.basis.offsets, bands.translate\n"),
        "quantum": ("from . import fiber\n"
                    "def cells(bands):\n"
                    "    g = bands.basis.gvectors()\n"
                    "    return fiber.PlaneWaveBasis, bands.basis.cutoff\n"),
    }
    assert layout_reads(sources) == [
        ("geometry", 1, "fiber_terms"), ("geometry", 3, "offsets"),
        ("quantum", 3, "gvectors"), ("quantum", 4, "PlaneWaveBasis")]


def test_only_fiber_reads_the_plane_wave_layout():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert OWNER in sources and "geometry" in sources
    assert layout_reads(sources) == []
