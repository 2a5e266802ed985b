"""Golden digests of the program's outputs.

The sha256 of the CSV of every distinct preset sweep, of fig2a under the two
full-generator modes (trace route), and of the quick `validate` report with
its timings masked.  A change that means to alter an output updates the
digest in the same commit and says why.

The digests are pinned to a numerical build, not only to a numpy version:
numpy 2.4.6 linking OpenBLAS 0.3.31 (built with DYNAMIC_ARCH, running its
SkylakeX core), with numpy's SIMD dispatch reaching AVX512_SPR.  Another BLAS
kernel or SIMD level rounds last digits differently: under
OPENBLAS_CORETYPE=Sandybridge 50-78% of the rows of each pinned series
change, by at most 9.7e-16 absolute in W, Q_H, Q_C and Sigma, and both tests
here fail.  Removing the BLAS dependence is ROADMAP item 11.
"""

import hashlib
import re
from dataclasses import replace

from twostroke import validation
from twostroke.cli import main
from twostroke.presets import figure_preset
from twostroke.propagators import PropagatorMode
from twostroke.sweep import rows_to_csv, run_sweep

CSV_DIGESTS = {
    "fig2a/main=fig10/interaction":
        "8abff8f84dfdcc4031f95d11d00f7f23205e105f8adabe32b1bd627bc5ea6d7c",
    "fig2b/k0.10":
        "c9d97b1a83b515d0496bb2d256df1b0244149b1ee1d19dc0c5a78d4aa68d7a6e",
    "fig2b/k0.12":
        "08938a5b7e76ea2158932051c73a98dd184b19b51ed30aab9848d95d1c213cdc",
    "fig3a/k0.10=fig3b/k0.10=fig4a/k0.10=fig4b/k0.10=fig5/k0.10":
        "79b43c4ec8357e65d70cfe4016788441d0ab14e173c85c90997cd99a8bb4dc8f",
    "fig3a/k0.12=fig3b/k0.12=fig4a/k0.12=fig4b/k0.12=fig5/k0.12":
        "5506dbd01f9070f73e01874e84c9a8d5997d4e7faa50be2983ccb2a1f651c4d8",
    "fig9/interaction":
        "292b22106b47b5489b3a7ee7983bf7137f25fe89fc31b63557afecdfc25ce67c",
    "fig9/full":
        "c928e65c33c42116f1277c1693788e4f13fd84628d0601b0483ecd1af01d509c",
    "fig10/full":
        "6204cf077fc09eba6743f4fa06a5f294fba7c02b077e8034caf79e7e528e18a5",
    "fig2a/main --mode full --routes trace":
        "6204cf077fc09eba6743f4fa06a5f294fba7c02b077e8034caf79e7e528e18a5",
    "fig2a/main --mode oracle-full --routes trace":
        "f91c8222251df8d776206ac85da3952139d4cc91125dc1e2d45ad368530e03e0",
}
VALIDATE_DIGEST = "44f96d108e73118ea026b61af4d608776b083acc252d725d9279567030626c72"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _series():
    series = dict(validation.preset_sweeps())
    (_, fig2a), = figure_preset("fig2a")
    for mode in (PropagatorMode.FULL, PropagatorMode.ORACLE_FULL):
        label = f"fig2a/main --mode {mode.value} --routes trace"
        series[label] = replace(fig2a, mode=mode, routes=("trace",))
    return series


def test_preset_csv_bytes_are_pinned():
    digests = {label: _sha256(rows_to_csv(run_sweep(spec))) for label, spec in _series().items()}
    changed = [label for label in CSV_DIGESTS if digests.get(label) != CSV_DIGESTS[label]]
    assert sorted(digests) == sorted(CSV_DIGESTS)
    assert not changed, f"CSV bytes changed for: {', '.join(changed)}"


def test_quick_validate_report_is_pinned(capsys):
    assert main(["validate"]) == 0
    report = re.sub(r"\d+\.\d+s", "<t>s", capsys.readouterr().out)
    assert _sha256(report) == VALIDATE_DIGEST, f"validate report changed:\n{report}"
