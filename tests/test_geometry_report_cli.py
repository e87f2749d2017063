"""Tests for geometry diagnostics, the characterization report, and the CLI."""

import numpy as np
import pytest

from repro.analysis.report import full_characterization, headline_value, render_markdown
from repro.cli import main as cli_main
from repro.core.framework import DatasetSizes, Observatory
from repro.core.measures.geometry import (
    isotropy_score,
    leading_direction_share,
    mean_pairwise_cosine,
    variance_spectrum,
)
from repro.core.results import PropertyResult
from repro.errors import MeasureError, ObservatoryError
from repro.seeding import rng_for


# --- geometry ---------------------------------------------------------------

def test_mean_pairwise_cosine_extremes():
    rng = rng_for("geom", 1)
    isotropic = rng.standard_normal((200, 16))
    anisotropic = isotropic + 10.0  # strong common direction
    assert mean_pairwise_cosine(anisotropic) > 0.9
    assert abs(mean_pairwise_cosine(isotropic)) < 0.1
    with pytest.raises(MeasureError):
        mean_pairwise_cosine(np.ones((1, 4)))


def test_variance_spectrum_descending():
    rng = rng_for("geom", 2)
    samples = rng.standard_normal((100, 8)) * np.array([5, 4, 3, 2, 1, 1, 1, 1])
    spectrum = variance_spectrum(samples)
    assert np.all(np.diff(spectrum) <= 1e-9)


def test_isotropy_score_bounds_and_ordering():
    rng = rng_for("geom", 3)
    isotropic = rng.standard_normal((300, 8))
    stretched = isotropic * np.array([20, 1, 1, 1, 1, 1, 1, 1])
    iso = isotropy_score(isotropic)
    aniso = isotropy_score(stretched)
    assert 0.0 < aniso < iso <= 1.0


def test_leading_direction_share():
    rng = rng_for("geom", 4)
    direction = np.zeros(8)
    direction[0] = 1.0
    samples = np.outer(rng.standard_normal(100) * 10, direction)
    samples += rng.standard_normal((100, 8)) * 0.1
    assert leading_direction_share(samples) > 0.9


def test_t5_more_anisotropic_than_bert(tennis_table):
    """The Figure 6 observation holds in the surrogates' output geometry."""
    from tests.conftest import cached_model
    from repro.relational.permutations import sample_permutations

    perms = sample_permutations(tennis_table.num_rows, 8, seed_parts=("geom",))
    clouds = {}
    for name in ("bert", "t5"):
        model = cached_model(name)
        clouds[name] = np.stack(
            [model.embed_columns(tennis_table.reorder_rows(list(p)))[0] for p in perms]
        )
    assert leading_direction_share(clouds["t5"]) > leading_direction_share(clouds["bert"])


# --- report ------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_obs():
    return Observatory(
        seed=2,
        sizes=DatasetSizes(
            wikitables_tables=4,
            spider_databases=2,
            nextiajd_pairs=6,
            sotab_tables=6,
            n_permutations=4,
        ),
    )


def test_full_characterization_matrix(tiny_obs):
    matrix = full_characterization(
        tiny_obs,
        models=["bert", "taptap"],
        properties=["row_order_insignificance", "sample_fidelity"],
    )
    assert matrix["bert"]["row_order_insignificance"] is not None
    # TapTap is excluded from both properties per the paper's Table 2.
    assert matrix["taptap"]["row_order_insignificance"] is None
    assert matrix["taptap"]["sample_fidelity"] is None


def test_render_markdown(tiny_obs):
    matrix = {"bert": {"row_order_insignificance": 0.99, "sample_fidelity": None}}
    text = render_markdown(matrix)
    assert "| bert | 0.990 | — |" in text
    with pytest.raises(ObservatoryError):
        render_markdown({})


def test_headline_value_missing_distribution():
    empty = PropertyResult("sample_fidelity", "m")
    assert headline_value(empty, "sample_fidelity") is None


def test_full_characterization_unknown_property(tiny_obs):
    with pytest.raises(ObservatoryError):
        full_characterization(tiny_obs, models=["bert"], properties=["telepathy"])


# --- cli ----------------------------------------------------------------------

def test_cli_list_commands(capsys):
    assert cli_main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "bert" in out and "taptap" in out
    assert cli_main(["list-properties"]) == 0
    out = capsys.readouterr().out
    assert "row_order_insignificance" in out


def test_cli_characterize(capsys):
    code = cli_main(
        [
            "--tables", "3", "--permutations", "4",
            "characterize", "--model", "bert",
            "--property", "row_order_insignificance",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "column/cosine" in out
    assert "model:    bert" in out


def test_cli_entity_stability_requires_partner(capsys):
    code = cli_main(
        ["characterize", "--model", "bert", "--property", "entity_stability"]
    )
    assert code == 2
    assert "partner" in capsys.readouterr().err


def test_cli_report_unknown_model(capsys):
    code = cli_main(["report", "--models", "bert,unknown-model"])
    assert code == 2
    assert "unknown" in capsys.readouterr().err


def test_cli_sweep_rejects_non_positive_deadline(capsys):
    for deadline in ("0", "-1"):
        code = cli_main(
            [
                "sweep",
                "--models",
                "bert",
                "--properties",
                "row_order_insignificance",
                "--deadline",
                deadline,
            ]
        )
        assert code == 2
        assert "deadline must be positive" in capsys.readouterr().err
