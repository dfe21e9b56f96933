#!/usr/bin/env python3
# The free differential calculus on a finite set: basis words, products,
# the differential, and the scalar product.  Everything is exact.  A basis
# word w enters as the form Form.word(w); the product is *, and d is
# differential(form, n).

from finitary import Form, basis_words, differential, inner, unit

n = 3  # three vertices, indexed 0, 1, 2

# grade-r basis words are vertex sequences of length r+1 with no equal
# adjacent letters; there are n*(n-1)^r of them
for r in range(3):
    words = list(basis_words(n, r))
    print(f"grade {r}: {len(words)} words:", ", ".join(map(repr, words)))

# the overlap product concatenates when the junction letters match,
# writing the shared letter once, and is zero otherwise
print()
print("e(0,1) * e(1,2) =", Form.word((0, 1)) * Form.word((1, 2)))
print("e(0,1) * e(0,2) =", Form.word((0, 1)) * Form.word((0, 2)))

# grade-0 idempotents act on both sides by the same product: e_i keeps the
# words that start (left) or end (right) with i; their sum is the identity
w = Form.word((0, 1))
print("e_0 . e(0,1) . e_1 =", Form.word((0,)) * w * Form.word((1,)))
print("unit * e(0,1)     =", unit(n) * w)

# the differential inserts a letter into every gap with alternating signs
f = Form.word((0,))
df = differential(f, n)
print()
print("d e(0)  =", df)
print("d d e(0) =", differential(df, n), " (always zero)")

# graded Leibniz rule: d(a*b) = (da)*b + (-1)^grade(a) a*(db)
a, b = Form.word((0, 1)), Form.word((1, 2))
lhs = differential(a * b, n)
rhs = differential(a, n) * b - a * differential(b, n)
print()
print("d(a*b)              =", lhs)
print("(da)*b - a*(db)     =", rhs)
assert lhs == rhs

# basis words are orthonormal; the product is conjugate-linear on the left
print()
print("(e(0,1), e(0,1)) =", inner(Form.word((0, 1)), Form.word((0, 1))))
print("(e(0,1), e(1,0)) =", inner(Form.word((0, 1)), Form.word((1, 0))))
