#!/usr/bin/env python
"""Serving quickstart: run a query stream through the serving tier.

One warm :class:`repro.Session` fronted by the serving-tier pieces:

1. a fingerprint-keyed :class:`repro.ResultCache` that makes repeated
   deterministic queries near-free,
2. an :class:`repro.AdmissionPolicy` that prices queries *before* any
   sampling starts and rejects (or queues) over-budget work,
3. ``run_many``, which answers a batch in order — admitted queries
   first, then queued ones — and, on request, returns a rejection in
   its query's slot instead of failing the batch.

Run:  python examples/serve_quickstart.py
"""

import time

from repro import (
    AdmissionPolicy,
    AdmissionRejected,
    BoostQuery,
    EvalQuery,
    ResultCache,
    SamplingBudget,
    SeedQuery,
    Session,
    estimate_cost,
    load_dataset,
)

SEED = 7


def main() -> None:
    print("1) Building the digg-like network ...")
    graph = load_dataset("digg-like", seed=SEED)
    print(f"   n = {graph.n}, m = {graph.m}")

    policy = AdmissionPolicy(reject_units=2e9, queue_units=5e8)
    with Session(
        graph,
        budget=SamplingBudget(max_samples=4000, mc_runs=200),
        cache=ResultCache(capacity=128),
        admission=policy,
    ) as session:
        print("2) Answering a mixed batch (run_many) ...")
        seeds = session.run(SeedQuery(k=10, rng_seed=SEED)).selected
        batch = [
            BoostQuery(seeds=seeds, k=20, rng_seed=SEED,
                       algorithm="prr_boost_lb"),
            BoostQuery(seeds=seeds, k=20, rng_seed=SEED, algorithm="pagerank"),
            EvalQuery(seeds=seeds, metric="sigma", rng_seed=SEED),
        ]
        t0 = time.perf_counter()
        cold = session.run_many(batch)
        cold_s = time.perf_counter() - t0
        for result in cold:
            print(f"   {result.algorithm:>14}: "
                  f"{dict(result.estimates) or result.selected[:6]}")

        print("3) Replaying the same batch (cache hits) ...")
        t0 = time.perf_counter()
        warm = session.run_many(batch)
        warm_s = time.perf_counter() - t0
        assert [r.fingerprint for r in warm] == [r.fingerprint for r in cold]
        print(f"   cold {cold_s * 1e3:.1f} ms -> warm {warm_s * 1e3:.1f} ms, "
              f"cache stats = {session.stats()['cache']}")

        print("4) Admission control on an over-budget query ...")
        monster = BoostQuery(seeds=seeds, k=20, rng_seed=SEED,
                             budget=SamplingBudget(max_samples=200_000_000))
        cost = estimate_cost(session, monster)
        print(f"   estimated cost = {cost.units:.2e} units "
              f"(reject above {policy.reject_units:.2e})")
        try:
            session.run(monster)
        except AdmissionRejected as exc:
            print(f"   rejected pre-sampling: "
                  f"{exc.envelope['admission']['reason']}")

        # In batches the stream stays alive: the rejected slot carries the
        # envelope, everything else is answered normally.
        mixed = session.run_many([batch[0], monster], on_reject="envelope")
        print(f"   batch slots -> {mixed[0].algorithm} answered, "
              f"slot 1 error = {mixed[1].extra['error']}")

    print("Same protocol from the shell:  "
          "repro serve --dataset digg-like < queries.ndjson")


if __name__ == "__main__":
    main()
