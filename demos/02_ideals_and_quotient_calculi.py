#!/usr/bin/env python3
# Basic ideals: spans of all superwords of an antichain of generators.
# Dividing the free calculus by one gives a calculus in which exactly the
# contained words vanish.

from finitary import BasicIdeal, Form, differential

n = 2


def e(w):
    """A word, a tuple of vertex indices, written as forms write it."""
    return "e(" + ",".join(map(str, w)) + ")"


def spelled(words):
    """A tuple of words written as Python writes a tuple."""
    return str(tuple(map(e, words))).replace("'", "")


# the constructor normalizes: e(1,0,1) contains e(0,1) as a subsequence,
# so it is a redundant generator and gets dropped
ideal = BasicIdeal(n, [(0, 1), (1, 0, 1)])
print("generators:", spelled(ideal.generators))

# membership is a subsequence scan
for w in [(0, 1), (1, 0), (1, 0, 1), (0, 1, 0)]:
    print(f"contains {e(w)}? {ideal.contains(w)}")

# reduce projects a form onto the surviving words
f = differential(Form.word((0,)), n)
print()
print("d e(0)          =", f)
print("reduced by ideal =", ideal.reduce(f))

# the quotient calculus differentiates and multiplies, then reduces;
# closure of the ideal makes this well defined
print("quotient d e(0) =", ideal.quotient_differential(Form.word((0,))))
print(
    "quotient e(1,0)*e(0,1) =",
    ideal.quotient_product(Form.word((1, 0)), Form.word((0, 1))),
)

# killing both grade-2 words makes d vanish on 1-forms entirely
flat = BasicIdeal(n, [(0, 1, 0), (1, 0, 1)])
print()
print("with generators", spelled(flat.generators))
print("quotient d e(0,1) =", flat.quotient_differential(Form.word((0, 1))))
