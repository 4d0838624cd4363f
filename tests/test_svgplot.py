"""Direct checks of the standalone SVG line chart."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from lehmann.errors import DomainError
from lehmann.svgplot import render_curve

NS = "{http://www.w3.org/2000/svg}"


def test_rejects_bad_inputs():
    with pytest.raises(DomainError):
        render_curve([1.0], [2.0], "x", "y")
    with pytest.raises(DomainError):
        render_curve([1.0, 2.0], [1.0], "x", "y")


def test_document_structure():
    svg = render_curve([1.0, 2.0, 3.0], [0.0, 0.5, 0.25], "time", "level")
    root = ET.fromstring(svg)
    assert root.tag == f"{NS}svg"
    assert root.get("width") == "800" and root.get("height") == "600"
    assert len(root.findall(f".//{NS}path")) == 1
    labels = [t.text for t in root.findall(f".//{NS}text")]
    assert "time" in labels and "level" in labels


def test_five_ticks_per_axis_three_sig_figs():
    svg = render_curve([1.0, 10.0], [0.0, 1.402585], "lambda", "loss")
    root = ET.fromstring(svg)
    texts = [t.text for t in root.findall(f".//{NS}text")]
    numeric = [t for t in texts if t not in ("lambda", "loss")]
    assert len(numeric) == 10  # 5 per axis
    assert "10" in numeric  # x upper end
    assert "1.4" in numeric  # y upper end at 3 significant figures
    for t in numeric:
        assert float(t) == pytest.approx(float(f"{float(t):.3g}"))


def test_flat_curve_still_renders():
    svg = render_curve([0.0, 1.0, 2.0], [4.0, 4.0, 4.0], "x", "y")
    root = ET.fromstring(svg)
    assert len(root.findall(f".//{NS}path")) == 1


def test_cli_import_loads_no_xml_module():
    # xml.sax.saxutils, once imported for its escape, pulls in urllib.request
    code = ("import sys, lehmann.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'xml'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_labels_are_escaped():
    svg = render_curve([1.0, 2.0], [1.0, 2.0], "a<b", 'c&"d')
    assert "a&lt;b" in svg
    assert "c&amp;" in svg
    ET.fromstring(svg)
