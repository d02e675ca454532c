"""CSV parsing and the hand-written SVG renderer."""

import re
from xml.etree import ElementTree

import pytest

from conftest import make_cfg
from sgdlab.errors import ConfigError
from sgdlab.harness import estimates_csv, run_experiment
from sgdlab.plotting import parse_estimates_csv, plot_file, svg_plot

GOOD_CSV = """\
checkpoint,mean_grad_sq,se_grad_sq,mean_gap,se_gap
0,100.0,0.0,50.0,0.0
10,10.0,1.0,5.0,0.5
100,1.0,0.1,0.5,0.05
1000,0.1,0.01,0.05,0.005
"""


def test_parse_estimates_csv_columns():
    cols = parse_estimates_csv(GOOD_CSV)
    assert cols["checkpoint"] == [0.0, 10.0, 100.0, 1000.0]
    assert cols["mean_gap"] == [50.0, 5.0, 0.5, 0.05]
    with_avg = GOOD_CSV.replace("se_gap", "se_gap,mean_avg_gap,se_avg_gap") \
                       .replace("0.0,50.0,0.0", "0.0,50.0,0.0,60.0,0.0") \
                       .replace("1.0,5.0,0.5", "1.0,5.0,0.5,6.0,0.5") \
                       .replace("0.1,0.5,0.05", "0.1,0.5,0.05,0.6,0.05") \
                       .replace("0.01,0.05,0.005", "0.01,0.05,0.005,0.06,0.005")
    cols = parse_estimates_csv(with_avg)
    assert cols["mean_avg_gap"] == [60.0, 6.0, 0.6, 0.06]


@pytest.mark.parametrize("text,message", [
    ("", "empty"),
    ("checkpoint,mean_grad_sq,se_grad_sq,mean_gap,se_gap\n", "no data rows"),
    ("k,gsq\n1,2\n", "must start with columns"),
    (GOOD_CSV + "10,1.0\n", "malformed"),
    (GOOD_CSV.replace("10,10.0", "10,ten"), "non-numeric"),
])
def test_parse_estimates_csv_rejections(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_estimates_csv(text)


def test_svg_plot_structure():
    svg = svg_plot(parse_estimates_csv(GOOD_CSV), title="demo")
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert svg.count('class="curve"') == 2
    assert svg.count('class="band"') == 2
    assert svg.count('class="axis"') == 1
    assert ">demo<" in svg
    for label in (">1e1<", ">1e2<", ">1e3<"):
        assert label in svg
    assert ">mean_grad_sq<" in svg and ">mean_gap<" in svg


def test_svg_plot_monotone_series_has_monotone_pixels():
    svg = svg_plot(parse_estimates_csv(GOOD_CSV))
    pts = re.search(r'class="curve"[^>]*points="([^"]*)"', svg).group(1)
    pairs = [tuple(map(float, p.split(","))) for p in pts.split()]
    # k = 0 has no log coordinate, so only three points survive
    assert len(pairs) == 3
    xs, ys = zip(*pairs)
    assert list(xs) == sorted(xs)
    assert list(ys) == sorted(ys)  # decreasing values move down the canvas


def test_svg_plot_skips_nonpositive_rows_per_series():
    cols = parse_estimates_csv(GOOD_CSV)
    cols["mean_grad_sq"] = [-1.0, -1.0, -1.0, -1.0]
    svg = svg_plot(cols)
    assert svg.count('class="curve"') == 1
    assert svg.count('class="band"') == 1
    cols["mean_gap"] = [0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ConfigError, match="no plottable rows"):
        svg_plot(cols)


def test_plot_file_round_trip(tmp_path):
    est = run_experiment(make_cfg(horizon=50, replicas=8, checkpoint_stride=10))
    csv_path = tmp_path / "estimates.csv"
    csv_path.write_text(estimates_csv(est))
    svg_path = tmp_path / "curve.svg"
    plot_file(str(csv_path), str(svg_path), title="run")
    text = svg_path.read_text()
    assert text.startswith("<svg ")
    assert svg_plot(parse_estimates_csv(estimates_csv(est)), title="run") == text


def test_a_title_with_markup_characters_is_escaped(tmp_path):
    # `plot --title` text lands inside a <text> element: unescaped, "<" and
    # "&" make the file ill-formed XML.
    csv_path = tmp_path / "estimates.csv"
    csv_path.write_text(GOOD_CSV)
    svg_path = tmp_path / "curve.svg"
    title = "gap < 1e-3 & co"
    plot_file(str(csv_path), str(svg_path), title=title)
    root = ElementTree.fromstring(svg_path.read_text())
    assert next(root.iter("{http://www.w3.org/2000/svg}text")).text == title
