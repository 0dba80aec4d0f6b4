import subprocess
import sys
from pathlib import Path

import pytest

import rgpoly

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "ArrowPresentation", "CheckReport", "ContractionResult",
    "ConversionCertificate", "Edge", "GenusError", "MalformedCode",
    "MalformedDiagram", "MalformedPresentation", "MapEdge",
    "MissingOrientation", "NonMonomialNegativePower", "ParseError",
    "PlaneMap", "Polynomial", "RelPlaneGraph", "RgpolyError", "RibbonGraph",
    "SizeLimit", "VirtualLinkDiagram", "arrow_presentation",
    "bollobas_riordan", "boundary_components", "check_bracket",
    "check_duality", "check_main_theorem", "check_subset_identities",
    "components", "contract", "contract_all", "convert", "delete", "dual",
    "errors", "faces", "from_arrow_presentation", "generate", "jones",
    "kauffman_bracket", "link_to_tait", "links", "make_edge",
    "medial_circles", "monomial", "nullity", "parse", "plane_to_ribbon",
    "planemap", "poly", "psi", "realize_gauss_code", "relative_tutte",
    "ribbon", "ribbon_to_plane", "router", "run_suite", "split",
    "swap_vars", "util", "var", "verify", "writhe",
]


def test_public_names_are_pinned():
    assert sorted(rgpoly.__all__) == PUBLIC_NAMES


def test_import_loads_no_test_dependency():
    # networkx and sympy serve the oracle tests only
    code = "import sys, rgpoly; print(sorted({'networkx', 'sympy'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr.decode()
