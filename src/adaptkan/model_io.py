"""Model persistence: JSON files that round-trip the network bitwise.

Floats are serialised with Python's shortest round-trip repr, so a saved
and re-loaded network reproduces forward outputs exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .adapt import AdaptConfig
from .histogram import FeatureHistogram
from .network import AdaptKanLayer, AdaptKanNet
from .spline import GridDomain

FORMAT_VERSION = 1


def _layer_to_dict(layer: AdaptKanLayer) -> dict:
    return {
        "n": layer.n,
        "m": layer.m,
        "use_base": layer.use_base,
        "features": [
            {
                "domain": {"a": dom.a, "b": dom.b, "omega": dom.omega, "k": dom.k},
                "hist": {
                    "hist": h.hist.tolist(),
                    "ood_hist": h.ood_hist.tolist(),
                    "ood_a": h.ood_a,
                    "ood_b": h.ood_b,
                    "alpha": h.alpha,
                },
            }
            for dom, h in zip(layer.domains, layer.hists)
        ],
        "coef": layer.coef.tolist(),
        "w_s": layer.w_s.tolist(),
        "w_b": layer.w_b.tolist(),
    }


def _layer_from_dict(d: dict) -> AdaptKanLayer:
    domains = []
    hists = []
    for feat in d["features"]:
        dom = GridDomain(**feat["domain"])
        domains.append(dom)
        h = feat["hist"]
        hists.append(FeatureHistogram(dom, h["alpha"], hist=h["hist"],
                                      ood_hist=h["ood_hist"],
                                      ood_a=h["ood_a"], ood_b=h["ood_b"]))
    return AdaptKanLayer(d["n"], d["m"], domains, hists,
                         np.asarray(d["coef"], dtype=float),
                         np.asarray(d["w_s"], dtype=float),
                         np.asarray(d["w_b"], dtype=float),
                         d["use_base"])


def save_model(net: AdaptKanNet, path, meta: dict | None = None) -> None:
    """Write the full network state (weights, domains, histograms) as JSON."""
    cfg = net.cfg
    doc = {
        "format_version": FORMAT_VERSION,
        "shape": net.shape,
        "adapt": {
            "alpha": cfg.alpha,
            "prune_patience": cfg.prune_patience,
            "stretch_mode": cfg.stretch_mode,
            "shrink_rule": cfg.shrink_rule,
            "refit_mode": cfg.refit_mode,
            "outlier_count": cfg.outlier_count,
        },
        "layers": [_layer_to_dict(ly) for ly in net.layers],
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
    cfg = AdaptConfig.from_dict(doc["adapt"])
    net = AdaptKanNet([_layer_from_dict(d) for d in doc["layers"]], cfg)
    return net
