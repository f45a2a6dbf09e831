#!/usr/bin/env python3
"""One-period prioritized matrix game, start to finish.

Builds a small payoff matrix, reads off the lower value (maximizer commits
first, minimizer answers) and the upper value (the other order), blends them
with the priority p, and checks the mixed value against brute-force
enumeration over every counter map.  Then plays the coin rule many times and
watches the empirical mean settle on the mixed value.
"""

import numpy as np

from isaacslab import play_one_period, representation_residual, saddle

seed = 0
n_plays = 200_000

f = np.array(
    [
        [1.0, -2.0, 0.5],
        [0.0, 3.0, -1.0],
        [2.0, -0.5, 1.5],
    ]
)

print("payoff matrix f(u, v), u maximizes rows, v minimizes columns")
print(f)
print()

# the lower and upper games do not depend on p
sad = saddle(f, 0.5)
print(f"lower value (v sees u's row first):  {sad.lower:+.4f}  at row {sad.u_star}")
print(f"  v's counter map beta(u) = {sad.beta_star.tolist()}")
print(f"upper value (u sees v's column first): {sad.upper:+.4f}  at column {sad.v_star}")
print(f"  u's counter map alpha(v) = {sad.alpha_star.tolist()}")
print()

print("priority p blends the two orders: value = p * lower + (1 - p) * upper")
for p in (0.0, 0.25, 0.5, 0.75, 1.0):
    sad = saddle(f, p)
    supinf, infsup, residual = representation_residual(f, p)
    print(
        f"  p = {p:.2f}: mixed = {sad.mixed:+.4f}"
        f"  supinf = {supinf:+.4f}  infsup = {infsup:+.4f}"
        f"  residual = {residual:.2e}"
    )
print()

# Play the coin rule: heads (coin < p) means u commits and v answers.
p = 0.25
sad = saddle(f, p)
rng = np.random.default_rng(seed)
coins = rng.uniform(size=n_plays)
u_choice = (sad.u_star, sad.alpha_star)
v_choice = (sad.v_star, sad.beta_star)
payoffs = np.fromiter(
    (play_one_period(f, p, u_choice, v_choice, coin=c) for c in coins),
    dtype=float,
    count=n_plays,
)
mean = payoffs.mean()
se = payoffs.std(ddof=1) / np.sqrt(n_plays)
print(f"played {n_plays} periods at p = {p} with both sides at their saddle choices")
print(f"  heads fraction    {np.mean(coins < p):.4f}  (target {p})")
print(f"  empirical mean    {mean:+.6f} +/- {se:.6f}")
print(f"  mixed value       {sad.mixed:+.6f}")
print(f"  gap in std errors {abs(mean - sad.mixed) / se:.2f}")
