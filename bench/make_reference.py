"""Regenerate bench/reference.json:

    python3 bench/make_reference.py

* search: hit count and digest of the sorted hits of every search-fp job,
  found by brute force with the independent evaluators in
  ``leibnizkit.oracles`` (never with ``enumerate_operators``);
* cli: the exit code of every cli-check request, read from the ``expected``
  verdicts of the catalog JSON files (ok -> 0, not ok -> 1);
* suites: checks passed per theorem suite, recorded from a clean run of
  ``run_suites(load_catalog())``; every suite must pass with no failures.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from leibnizkit import oracles  # noqa: E402
from leibnizkit.catalog import load_catalog  # noqa: E402
from leibnizkit.suites import run_suites  # noqa: E402


def _rows(flat, rows, cols):
    return tuple(tuple(flat[r * cols:(r + 1) * cols]) for r in range(rows))


def _det_mod(m, p):
    """Determinant mod p by Gaussian elimination on a copy."""
    a = [list(row) for row in m]
    n = len(a)
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] % p), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], p - 2, p)
        for r in range(c + 1, n):
            factor = a[r][c] * inv % p
            for k in range(c, n):
                a[r][k] = (a[r][k] - factor * a[c][k]) % p
    return det % p


def oracle_hits(spec):
    p = spec.field.p
    rows, cols = spec.shape
    hits = []
    if spec.predicate == "bn_pair":
        alg, n = spec.algebra, spec.algebra.dim
        for flat_n in itertools.product(range(p), repeat=n * n):
            N = _rows(flat_n, n, n)
            if not oracles.eval_nijenhuis(N, alg).ok:
                continue
            for flat_b in itertools.product(range(p), repeat=n * n):
                B = _rows(flat_b, n, n)
                symmetric = all(B[i][j] == B[j][i] for i in range(n) for j in range(n))
                if not symmetric or _det_mod(B, p) == 0:
                    continue
                if oracles.eval_bn_structure(alg, SimpleNamespace(matrix=B), N).ok:
                    hits.append(flat_b + flat_n)
        return hits
    evaluate = {
        "nijenhuis": lambda m: oracles.eval_nijenhuis(m, spec.algebra),
        "rota_baxter": lambda m: oracles.eval_rota_baxter(m, spec.algebra),
        "kupershmidt": lambda m: oracles.eval_kupershmidt(m, spec.rep),
        "mc_strong": lambda m: oracles.eval_maurer_cartan(spec.ctx, m, strong=True),
    }[spec.predicate]
    for flat in itertools.product(range(p), repeat=rows * cols):
        if evaluate(_rows(flat, rows, cols)).ok:
            hits.append(flat)
    return hits


def main() -> int:
    catalog = load_catalog()
    search = {}
    for name, spec in workloads.search_jobs(catalog).items():
        hits = oracle_hits(spec)
        search[name] = {"hits": len(hits), "digest": workloads.hits_digest(hits),
                        "candidates": workloads.space_size(spec)}
        print(f"{name}: {len(hits)} hits", file=sys.stderr)

    cli = {}
    for path in sorted(workloads.CATALOG_DIR.glob("*.json")):
        doc = json.loads(path.read_text("utf-8"))
        for i, item in enumerate(doc.get("expected", [])):
            cli[f"{path.stem}:{i}:{item['object']}:{item['check']}"] = 0 if item["ok"] else 1

    results = run_suites(catalog)
    bad = [r.name for r in results if not r.ok]
    if bad:
        print(f"error: suites failing, not recording them: {bad}", file=sys.stderr)
        return 1
    suites = {r.name: r.passed for r in results}

    doc = {
        "regenerate": "python3 bench/make_reference.py",
        "search": search,
        "cli": cli,
        "suites": suites,
        "suites_total": sum(suites.values()),
    }
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
