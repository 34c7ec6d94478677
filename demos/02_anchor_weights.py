"""Walkthrough: anchor indicators and depth-decayed weights.

Compares the four strategies on one program and visualizes how the weight
mu(l) = omega(l) * eta(l) decays with tree depth.
"""

from anchordiff import (
    AnchorConfig,
    AnchorStrategy,
    assign_nodes,
    compute_eta,
    compute_omega,
    parse,
    tokenize,
)

SOURCE = """\
def tally(nums, lim):
    acc = 0
    for v in nums:
        if v < lim:
            acc = acc + v
    return acc
"""

tokens = tokenize(SOURCE)
tree = parse(SOURCE)
# Each token's depth is its node's: node ids from assign_nodes, depths from the tree.
depth = [tree.depth(n) for n in assign_nodes(tree, tokens).tolist()]

print("per-token anchor weights under each strategy\n")
header = f"{'token':<8} {'depth':>5} "
configs = {}
for name in ("null", "keyword", "identifier", "anchor_tree"):
    configs[name] = AnchorConfig.for_strategy(name)
    header += f"{name:>12}"
print(header)

mu = {name: compute_omega(tokens, cfg) * compute_eta(depth, cfg) for name, cfg in configs.items()}
rows = []
for i, (tok, d) in enumerate(zip(tokens, depth)):
    if tok.kind.value in ("Newline", "Indent", "Dedent"):
        continue
    line = f"{tok.text!r:<8} {d:>5} "
    for name in configs:
        line += f"{mu[name][i]:>12.5f}"
    rows.append(line)
for line in rows[:24]:
    print(line)

print("\nnotes:")
print("  - AnchorTree weights every keyword and identifier, decayed by depth")
print("    (gamma 0.03, beta 0.7, decay starts below depth 2).")
print("  - Keyword / Identifier are the hard variants: beta 0, flat gamma.")
print("  - With beta = 0 the weights collapse to {0, gamma}: hard anchoring.")

cfg = AnchorConfig.for_strategy(AnchorStrategy.ANCHOR_TREE)
eta = compute_eta(depth, cfg)
print("\neta by depth (gamma 0.03, beta 0.7, d0 2):")
for d, value in sorted(dict(zip(depth, eta)).items()):  # eta depends only on depth
    bar = "#" * int(round(value / 0.03 * 30))
    print(f"  depth {d}: {value:.5f} {bar}")
