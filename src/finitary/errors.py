"""Common bases: library errors, immutable values and index-set masks.

The CLI maps any FinitaryError on an input path to exit code 2; specific
subclasses live next to the code that raises them, except TooLarge,
which several modules raise.  Value, the base of the immutable value
types, and members(), which lists the indices set in an int mask, live
here because every value module already imports this one.
"""


class FinitaryError(Exception):
    pass


class TooLarge(FinitaryError):
    """An enumeration would exceed its documented size cap.

    The caps: automata.MAX_WORDS, 100 000 words built by the one level
    walk that lists an ideal's automaton and a relation's paths (a
    relation file's ``n`` header above MAX_WORDS is refused before
    anything is built), and MAX_WORDS + 1 automaton states walked for the
    dimension of a finite ideal whose words are not listed (an infinite
    one is told by its generators);
    coarse.MAX_SAMPLES, 100 000 sample points on the circle or in the cells
    of a complex; 20 points for topology.open_sets; complexes.MAX_CELLS,
    4096 cells in the closure SimplicialComplex.closed builds from a
    complex file.
    """


def members(mask: int) -> list[int]:
    """The points of a mask: the indices of its set bits, ascending."""
    if mask >> 64 and not mask & 1:  # wide: format it from its lowest set bit
        low = (mask & -mask).bit_length() - 1
        return [low + i for i in members(mask >> low)]
    bits = bin(mask)[:1:-1]  # binary digits, lowest first
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


class Value:
    """Base of an immutable value whose fields are its ``__slots__``.

    Invariant: every slot is set when the value is built, past the guard
    (through object.__setattr__ or the slot's own descriptor), and nothing
    changes a slot afterwards, except that a slot caching a derived result
    (Manifold's word listing, word labels and structure report,
    FiniteSpace's min_open table, BasicIdeal's matcher) may be filled once
    from None.
    Assigning or deleting an attribute raises AttributeError.  Equality and
    hash compare ``_key()``, the slot values in order unless a subclass
    overrides it, between values of one exact type.  Since a value never
    changes, a copy or deep copy is the value itself, and unpickling
    restores the slots as they were, without running the constructor again
    (FiniteSpace pickles its table and not the recipe it is built from,
    BasicIdeal its generators and not its matcher).  _restore also assembles
    the values whose invariants the library has just established (a
    relation's manifold and report, its complex, a sampled covering, the
    spaces FiniteSpace._lazy builds, the ideals and word manifolds a file
    reader reads), unchecked.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # the state is every slot, whatever a subclass's _key compares
        return _restore, (type(self), Value._key(self))


def _restore(cls, state):
    """The unpickled or assembled value: cls with its slots set to state."""
    value = object.__new__(cls)
    for name, item in zip(cls.__slots__, state):
        object.__setattr__(value, name, item)
    return value
