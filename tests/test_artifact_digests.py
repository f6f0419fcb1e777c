"""The bytes of every artifact of the fixture audit, pinned.

The fixture is audited under both gender modes, with and without outlet
suppression.  Every bootstrap block of the report is replaced with one
fixed block, so the digests do not depend on numpy's random stream; the
report is then emitted as JSON, CSV and SVG.  A change that moves any
byte of ``mentions.jsonl``, ``report.json``, the 12 CSVs or the 5 SVGs
fails here; if the change is meant, say which bytes move and why, and
update the digests.
"""

from __future__ import annotations

import hashlib

import pytest

from newsaudit.report import AuditConfig, AuditReport, emit, fixture_dir, run_audit

_FIXED_BOOTSTRAP = {"available": True, "mean": 0.5, "std": 0.125, "ci_low": 0.25,
                    "ci_high": 0.75, "iterations": 1000}


def _fixed_bootstraps(node):
    """``node`` with every bootstrap block (and each block of a per-gender
    bootstrap mapping) replaced by ``_FIXED_BOOTSTRAP``."""
    if isinstance(node, dict):
        return {
            key: (_fixed_block(value) if key == "bootstrap" else _fixed_bootstraps(value))
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [_fixed_bootstraps(value) for value in node]
    return node


def _fixed_block(value: dict) -> dict:
    if "available" in value:
        return dict(_FIXED_BOOTSTRAP)
    return {group: dict(_FIXED_BOOTSTRAP) for group in value}


# SHA-256 of each file by outlet suppression; only report.json depends on the
# gender mode as well.
_DIGESTS = {
    True: {
        "binned_attention.csv": "151701011eb88bbe8d8847bc4795d1cfad2252cf142a9d54f7c9daf924e28ff6",
        "co_mention.csv": "ce9f3d07949e92de76e3b7a1b1e782d1d205c639a3261376ceb0240dd7de4d1a",
        "cumulative_attention.csv":
            "c975130ce3111a3a315bc2265f9b22c19688add7e50f6f433fc30239cf8742fd",
        "fig_binned_attention.svg":
            "ec624f021203a025d47d7a0938bc3b3f8bd39afd0b1e1cd50cf0aef3cd890224",
        "fig_cumulative_attention.svg":
            "fbc78b434aff9f38273e8290fd456fb7a41fa378b912d7bb299c21e1239ecb2a",
        "fig_gender_by_org_type.svg":
            "ae6d1ae3914d8937302f9ccd80cc8b2ff3553c733377ea0a19175bcdb1e7578f",
        "fig_gender_pies.svg": "3b0325aeea150785220747641e08e62aa330fc5a79f518aecce87c5d8ee140a5",
        "fig_rank_scatter.svg": "e38c955ef6c762d36558de3b8d97dc3e47a8bc8f24e2fa76a948a959e0e573af",
        "gender_by_org_type.csv":
            "3f101f85b531c82b1b3b5bc4b18fb18ebada429fd42ce30ea911ef5626d67cd2",
        "gender_composition.csv":
            "9b2e89096d6e44477cda69b789c117583f5e7a39373624fe491b8b2a9651d01f",
        "mentions.jsonl": "36ab03024253d12f4f4a9695697355e6815d5d4b340fb0f8ff3188a9589ec5e8",
        "org_type_by_outlet.csv":
            "98488cf33ead0d6dfffc99771d5864ddc1ba7fc7669e57ec682c6b6f95145859",
        "outlet_ratios.csv": "2c3182857d2956cba235f67b9859da38839069e3eacdb94e5a7a911a123fc79c",
        "provenance.csv": "36824677fb47e6b874ef5b0ed0b1f5537173808b96c9b3bda1986c4b39b51537",
        "rank_attention_counts.csv":
            "200c7441773c59241e793a623d719b1d3c412ea24094d902c2deb676812fe693",
        "rank_attention_summary.csv":
            "7d6dddc79980293c30c3630f5a1d22c3d5144d936e0af3fca5aaae7590aad521",
        "sentence_length.csv": "42c6d884f52c58cfd5cba17ab157efd012f5a990b370aec6a7eae1dc8a719a77",
        "totals.csv": "9eabeacccdd581c208163cb8610c4c3aa4d7b790e9a48e06de8ee96dd1b8dbcd",
    },
    False: {
        "binned_attention.csv": "151701011eb88bbe8d8847bc4795d1cfad2252cf142a9d54f7c9daf924e28ff6",
        "co_mention.csv": "5244938553ead38fe6dede1e042008deee432da3b193f82c6eaf894c7bf09c90",
        "cumulative_attention.csv":
            "c975130ce3111a3a315bc2265f9b22c19688add7e50f6f433fc30239cf8742fd",
        "fig_binned_attention.svg":
            "ec624f021203a025d47d7a0938bc3b3f8bd39afd0b1e1cd50cf0aef3cd890224",
        "fig_cumulative_attention.svg":
            "fbc78b434aff9f38273e8290fd456fb7a41fa378b912d7bb299c21e1239ecb2a",
        "fig_gender_by_org_type.svg":
            "ae6d1ae3914d8937302f9ccd80cc8b2ff3553c733377ea0a19175bcdb1e7578f",
        "fig_gender_pies.svg": "c09480bb8708a7b431acde104a1439d8baeb61bae61c599d5f56a5f39380d5a5",
        "fig_rank_scatter.svg": "e38c955ef6c762d36558de3b8d97dc3e47a8bc8f24e2fa76a948a959e0e573af",
        "gender_by_org_type.csv":
            "3f101f85b531c82b1b3b5bc4b18fb18ebada429fd42ce30ea911ef5626d67cd2",
        "gender_composition.csv":
            "9219eb3a9ec10fcc91b93c09e538ffcefb0f94520ea338d88b3c630ea7c613e1",
        "mentions.jsonl": "f2e8dcfdb4d65da566c77485537363b005bd41f9e5d65ef3fb4aaff1b66b42b4",
        "org_type_by_outlet.csv":
            "98488cf33ead0d6dfffc99771d5864ddc1ba7fc7669e57ec682c6b6f95145859",
        "outlet_ratios.csv": "d30411f0b08604837adbb97324e54d9d43e0dcf1ac65370ab835a5bee967f7d1",
        "provenance.csv": "ba24538444c3c19a5307b67e3cc59abb1c4b9e0e719f28c7bf6f4ebf9ac723e6",
        "rank_attention_counts.csv":
            "200c7441773c59241e793a623d719b1d3c412ea24094d902c2deb676812fe693",
        "rank_attention_summary.csv":
            "7d6dddc79980293c30c3630f5a1d22c3d5144d936e0af3fca5aaae7590aad521",
        "sentence_length.csv": "9b54760154075ebb1d0f21c110f25817c41b322874d32075ee53a274b70e7fb7",
        "totals.csv": "b3c333a4f07d7894c242fd262d9fed1e2d2c2ad618dc9c19b9181e00670c01f5",
    },
}
_REPORT_DIGESTS = {
    ('first', True): "d6c8bbca7e443f4ef580a77cfb4730796cfe1e46cba150ef544de9f9a6ea18a7",
    ('first', False): "a254741db237eaeafbe471c2d1d5f485cd57e8b7f01428d968cf6ba1706e099e",
    ('majority', True): "5a543faafdb10fc76913adbc26175c832e16f10ecef36e3e353970c99c365884",
    ('majority', False): "6c2a5800601db69aba0ef1395cf48ce14ec05054b78593b2ddfa83d323b01879",
}


@pytest.mark.parametrize("suppression", [True, False])
@pytest.mark.parametrize("gender_mode", ["first", "majority"])
def test_fixture_artifact_bytes_are_pinned(tmp_path, gender_mode, suppression):
    fixture = fixture_dir()
    config = AuditConfig(gender_mode=gender_mode, outlet_suppression=suppression)
    report = run_audit(fixture / "corpus.jsonl", fixture / "sources.json", config=config,
                       out_dir=tmp_path)
    written = emit(AuditReport(data=_fixed_bootstraps(report.data)), ("json", "csv", "svg"),
                   tmp_path)
    assert len(written) == 18
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    want = {**_DIGESTS[suppression], "report.json": _REPORT_DIGESTS[gender_mode, suppression]}
    assert got == want
