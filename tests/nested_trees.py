"""Trees as checkpoints of schema version 2 laid them out: one nested dict per node.

Version 3 writes each tree as one pre-order list (`NodeTable.to_json`).
The digests pinned before that change hash the nested layout, so a pin
passes its document through `nested_doc` and still checks the same
models bit for bit. `nested_render` is the version-2 renderer itself;
`preorder` is the inverse of its output.
"""

from cohortsense.learners.trees import NodeTable


def nested_render(nodes: NodeTable) -> list[dict]:
    """The trees of ``nodes`` as version 2's `NodeTable.to_json` wrote them."""
    feature, threshold, left, right, value = (
        a.tolist() for a in (nodes.feature, nodes.threshold, nodes.left, nodes.right, nodes.value)
    )

    def node(i: int) -> dict:
        if left[i] < 0:
            return {"leaf": value[i]}
        return {
            "feature": feature[i],
            "threshold": threshold[i],
            "left": node(left[i]),
            "right": node(right[i]),
        }

    return [node(r) for r in nodes.roots.tolist()]


def nested(trees: list[list]) -> list[dict]:
    """Pre-order tree lists in, version 2's nested dicts out."""
    return nested_render(NodeTable.from_json(trees))


def nested_doc(doc):
    """``doc`` with every ``"trees"`` list laid out as version 2 laid it out."""
    if isinstance(doc, dict):
        return {k: nested(v) if k == "trees" else nested_doc(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [nested_doc(v) for v in doc]
    return doc


def preorder(tree: dict) -> list:
    """The pre-order list of one nested tree: the inverse of `nested`."""

    def walk(node: dict):
        if "leaf" in node:
            yield node["leaf"]
            return
        yield [node["feature"], node["threshold"]]
        yield from walk(node["left"])
        yield from walk(node["right"])

    return list(walk(tree))
