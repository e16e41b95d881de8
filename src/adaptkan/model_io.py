"""Model persistence: JSON files that round-trip the network bitwise.

Floats are serialised with Python's shortest round-trip repr, so a saved
and re-loaded network reproduces forward outputs exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .adapt import AdaptConfig, from_json
from .histogram import FeatureHistogram
from .network import AdaptKanLayer, AdaptKanNet
from .spline import GridDomain

FORMAT_VERSION = 1


def _layer_to_dict(layer: AdaptKanLayer, alpha: float) -> dict:
    """A layer's JSON object; each feature records the network's EMA rate."""
    h = layer.hist
    return {
        "n": layer.n,
        "m": layer.m,
        "use_base": layer.use_base,
        "features": [
            {
                "domain": {"a": a, "b": b, "omega": h.omega, "k": 3},
                "hist": {"hist": hist, "ood_hist": ood, "ood_a": lo, "ood_b": hi,
                         "alpha": float(alpha)},
            }
            for a, b, hist, ood, (lo, hi) in zip(
                h.a.tolist(), h.b.tolist(), h.hist.tolist(), h.ood_hist.tolist(),
                h.extremes.tolist())
        ],
        "coef": layer.coef.tolist(),
        "w_s": layer.w_s.tolist(),
        "w_b": layer.w_b.tolist(),
    }


def _layer_hist(features, alpha: float) -> FeatureHistogram:
    """A layer's histogram from its per-feature JSON objects, each of which
    must record the EMA rate ``alpha`` of the network's adapt block."""
    domains = [dict(f["domain"]) for f in features]
    degrees = {d.pop("k", 3) for d in domains}  # files record the degree; only 3 runs
    doms = [GridDomain(**d) for d in domains]
    hists = [f["hist"] for f in features]
    if not doms or degrees != {3} or {dom.omega for dom in doms} != {doms[0].omega}:
        raise ValueError("a layer needs one or more cubic (k = 3) features, all with one omega")
    if {len(h["ood_hist"]) for h in hists} != {2}:
        raise ValueError("every feature needs two out-of-domain tallies")
    if any(h["alpha"] != alpha for h in hists):
        raise ValueError(f"every feature's alpha must equal the adapt block's ({alpha})")
    # counts rows [below a, bins..., above b]; the constructor checks their width
    return FeatureHistogram([dom.a for dom in doms], [dom.b for dom in doms], doms[0].omega,
                            [h["ood_hist"][:1] + h["hist"] + h["ood_hist"][1:] for h in hists],
                            [[h["ood_a"], h["ood_b"]] for h in hists])


def _layer_from_dict(d, alpha: float) -> AdaptKanLayer:
    """Layer from its JSON object; a value of the wrong JSON type anywhere in
    it (a layer or feature that is not an object, say) raises ValueError."""
    try:
        return AdaptKanLayer(d["n"], d["m"],
                             _layer_hist(d["features"], alpha),
                             np.asarray(d["coef"], dtype=float),
                             np.asarray(d["w_s"], dtype=float),
                             np.asarray(d["w_b"], dtype=float),
                             d["use_base"])
    except TypeError as exc:
        raise ValueError(f"malformed model layer: {exc}") from None


def save_model(net: AdaptKanNet, path, meta: dict | None = None) -> None:
    """Write the full network state (weights, domains, histograms) as JSON."""
    doc = {
        "format_version": FORMAT_VERSION,
        "shape": net.shape,
        "adapt": asdict(net.cfg),
        "layers": [_layer_to_dict(ly, net.cfg.alpha) for ly in net.layers],
        "meta": meta or {},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_model(path) -> AdaptKanNet:
    """Reconstruct a network saved by :func:`save_model`."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"model file {path} does not hold a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    cfg = from_json(AdaptConfig, doc["adapt"], "adapt block")
    if not isinstance(doc["layers"], list):
        raise ValueError(f"model file {path}: layers is not a JSON list")
    return AdaptKanNet([_layer_from_dict(d, cfg.alpha) for d in doc["layers"]], cfg)
