"""Literal per-tuple rendering of the exact multiple-firing distortion,
used only by tests.

Every quantity is a plain Python sum over explicitly enumerated firing
tuples (itertools.product), samples and components, written from the
definitions rather than from the vectorised production code, so that
objective.compute_D_exact can be checked against it.  Slow on purpose;
keep M^n, S and the dimension small.
"""

from __future__ import annotations

import itertools


def centroid(weights, x):
    """sum_s w_s x_s / sum_s w_s, or the zero vector when sum_s w_s = 0."""
    dim = len(x[0])
    mass = 0.0
    num = [0.0] * dim
    for w, xs in zip(weights, x):
        mass += w
        for k in range(dim):
            num[k] += w * xs[k]
    if mass == 0.0:
        return [0.0] * dim, 0.0
    return [v / mass for v in num], mass


def sq_dist(a, b):
    return sum((u - v) ** 2 for u, v in zip(a, b))


def exact_distortion(x, post, n):
    """(D, D1, D2, D3) for samples x (S lists of dim floats) with
    independent firings drawn from post (S lists of M floats), n firings.

    D  = 2 <sum_t Pr(t|x) ||x - x'(t)||^2>
    D1 = (2/n) <sum_y Pr(y|x) ||x - x'(y)||^2>
    D2 = (2(n-1)/n) <||x - sum_y Pr(y|x) x'(y)||^2>
    D3 = 2 sum_t Pr(t) ||x'(t) - (1/n) sum_a x'(t_a)||^2
    where <.> is the mean over samples, Pr(t|x) = prod_a Pr(t_a|x), and
    x'(.) are Bayes centroids under the empirical measure.
    """
    s, m, dim = len(x), len(post[0]), len(x[0])
    ref_y = [centroid([post[i][y] for i in range(s)], x)[0] for y in range(m)]

    d = d1 = d2 = d3 = 0.0
    for i in range(s):
        for y in range(m):
            d1 += post[i][y] * sq_dist(x[i], ref_y[y])
        coherent = [sum(post[i][y] * ref_y[y][k] for y in range(m)) for k in range(dim)]
        d2 += sq_dist(x[i], coherent)

    for tup in itertools.product(range(m), repeat=n):
        pr = []
        for i in range(s):
            p = 1.0
            for y in tup:
                p *= post[i][y]
            pr.append(p)
        ref_t, mass = centroid(pr, x)
        for i in range(s):
            d += pr[i] * sq_dist(x[i], ref_t)
        slot_mean = [sum(ref_y[y][k] for y in tup) / n for k in range(dim)]
        d3 += (mass / s) * sq_dist(ref_t, slot_mean)

    return (2.0 * d / s, 2.0 / n * d1 / s, 2.0 * (n - 1) / n * d2 / s, 2.0 * d3)
