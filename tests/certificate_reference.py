"""Reference certificate: the face-set rule that coarse._recipes_match
decides with integer tests.

phi is proved an order isomorphism when, for every point x of a, the
images of the faces of x are exactly the faces of the image of x, compared
as Python sets; a face of a that is not a point of a gives False.  Between
two mask spaces the identity is proved when both list the same masks.
Tests compare the library's certificate with this rule.
"""

from finitary.complexes import facets


def recipes_match(a, b, phi) -> bool:
    (xs, a_faces), (ys, b_faces) = a._recipe, b._recipe
    if a_faces is b_faces is facets and phi == tuple(range(a.n)):
        return xs == ys
    image = dict(zip(xs, (ys[y] for y in phi)))
    try:
        return all({image[f] for f in a_faces(x)} == set(b_faces(image[x])) for x in xs)
    except KeyError:  # a face of a that is not a point of a
        return False
