"""Retrieval robustness under PHOC bit-flip noise.

Generates synthetic collections, corrupts every document PHOC at a range
of flip rates, and reports Top-1 / Top-5 retrieval accuracy averaged over
seeds.  Queries are always encoded from clean text.

Usage:
    python scripts/flip_sweep.py --seeds 5 --num-docs 100
"""

import argparse

import numpy as np

from phocqa.corpus import corrupt_collection
from phocqa.retriever import rank_collection
from phocqa.synth import GeneratorSpec, generate


def run_sweep(rates, seeds, num_docs, num_questions):
    top1 = np.zeros((len(rates), seeds))
    top5 = np.zeros((len(rates), seeds))
    for j in range(seeds):
        spec = GeneratorSpec(
            num_documents=num_docs,
            lines_per_document=(5, 10),
            words_per_line=(5, 10),
            vocab_size=max(400, 4 * num_questions),
            num_questions=num_questions,
            seed=j,
        )
        collection, questions = generate(spec)
        for i, rate in enumerate(rates):
            noisy = corrupt_collection(collection, rate, np.random.default_rng(j * 101 + i))
            h1 = h5 = 0
            for q in questions:
                results = rank_collection(noisy, q.query, k=5)
                h1 += results[0].doc_id == q.gold_doc_id
                h5 += any(r.doc_id == q.gold_doc_id for r in results)
            top1[i, j] = h1 / len(questions)
            top5[i, j] = h5 / len(questions)
    return top1, top5


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rates", type=float, nargs="+", default=[0.0, 0.05, 0.1, 0.2, 0.3, 0.5])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--num-docs", type=int, default=100)
    ap.add_argument("--num-questions", type=int, default=50)
    args = ap.parse_args()

    top1, top5 = run_sweep(args.rates, args.seeds, args.num_docs, args.num_questions)
    print(f"{'flip_rate':>10} {'top1':>8} {'top1_sd':>8} {'top5':>8} {'top5_sd':>8}")
    for i, rate in enumerate(args.rates):
        print(
            f"{rate:>10.2f} {top1[i].mean():>8.3f} {top1[i].std(ddof=1):>8.3f} "
            f"{top5[i].mean():>8.3f} {top5[i].std(ddof=1):>8.3f}"
        )


if __name__ == "__main__":
    main()
