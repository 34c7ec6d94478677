"""Walkthrough: tokenizing, parsing, and mapping tokens onto the tree.

Shows exact byte spans, the deepest-intersecting-node assignment, and the
partial order that everything downstream builds on.
"""

from anchordiff import assign_nodes, parse, precedes, tokenize
from anchordiff.hierarchy import ancestor_chain

SOURCE = """\
def search(xs, t):
    lo = 0
    while lo < t:
        if xs < t:
            mid = lo
            return mid
    return lo
"""

print("source:")
print(SOURCE)

tokens = tokenize(SOURCE)
print(f"{len(tokens)} tokens; first ten with spans:")
for i, tok in enumerate(tokens[:10]):
    print(f"  {i:3d} {tok.kind.value:<10} {tok.text!r:<10} {tok.span}")

tree = parse(SOURCE)
print("\nsyntax tree (kind, payload, byte span):")
print(tree.pretty())

node_id = assign_nodes(tree, tokens)  # one node id per token position
print("\ntoken -> deepest intersecting node:")
for tok, home in list(zip(tokens, node_id.tolist()))[:12]:
    node = tree.node(home)
    print(f"  {tok.text!r:<10} -> {node.kind.value:<12} depth {node.depth}")

# The partial order: a position is coarser than everything nested below it.
pos = {t.text: i for i, t in enumerate(tokens)}
print("\npartial order checks:")
print("  def  over return :", precedes(pos["def"], pos["return"], node_id, tree))
print("  while over mid   :", precedes(pos["while"], pos["mid"], node_id, tree))
print("  lo   over mid    :", precedes(pos["lo"], pos["mid"], node_id, tree))

# Ancestor chains step through each node's designated (keyword-first) token.
# The climb needs only each node's parent, the map an annotation record keeps.
mid = next(i for i, t in enumerate(tokens)
           if t.text == "mid" and tokens[i - 1].text == "return")
chain = ancestor_chain(mid, 4, node_id, tokens, tree.parents)
print("\nancestor chain from the returned 'mid':",
      [tokens[p].text for p in chain])
