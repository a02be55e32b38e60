"""Hypothesis strategies shared by several test modules."""
import math

from hypothesis import strategies as st

from selfaffine import validate_pair


#: Expanding integer matrices: the twin dragon's similarity, a dilation, a
#: swap with eigenvalues +-sqrt(2), a shear and two more rotation-dilations.
INTEGER_MATRICES_2D = (
    [[1, -1], [1, 1]],
    [[2, 0], [0, 2]],
    [[0, 2], [1, 0]],
    [[2, 1], [0, 2]],
    [[1, -2], [1, 1]],
    [[-1, -1], [1, -1]],
)

#: Expanding integer 3 x 3 matrices: a dilation, the companion matrix of
#: x^3 - 2, a Jordan block and the twin dragon's similarity beside a stretch.
INTEGER_MATRICES_3D = (
    [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
    [[0, 0, 2], [1, 0, 0], [0, 1, 0]],
    [[2, 1, 0], [0, 2, 1], [0, 0, 2]],
    [[1, -1, 0], [1, 1, 0], [0, 0, 3]],
)


@st.composite
def small_pairs(draw, dims=(1, 2)):
    """Small expanding pairs in the given dimensions (one to three), integral or not.

    A non-integral 3-D matrix is a rotation-dilation of the first two axes
    beside a stretch of the third, sheared into the first.
    """
    dim = draw(st.sampled_from(dims))
    if dim == 1:
        ratio = draw(st.one_of(st.sampled_from([2.0, 3.0, 4.0]), st.floats(1.2, 4.0)))
        matrix = [[draw(st.sampled_from([-1.0, 1.0])) * ratio]]
    elif draw(st.booleans()):
        matrix = draw(st.sampled_from(INTEGER_MATRICES_2D if dim == 2 else INTEGER_MATRICES_3D))
    else:
        r, t = draw(st.floats(1.2, 3.0)), draw(st.floats(0.0, 2 * math.pi))
        matrix = [[r * math.cos(t), -r * math.sin(t)], [r * math.sin(t), r * math.cos(t)]]
        if dim == 3:
            stretch, shear = draw(st.floats(1.2, 3.0)), draw(st.floats(-1.0, 1.0))
            matrix = [[*matrix[0], shear], [*matrix[1], 0.0], [0.0, 0.0, stretch]]
    # rounded, so that distinct digits stay farther apart than the merge tolerance
    coordinate = st.one_of(
        st.integers(-2, 2).map(float), st.floats(-1.5, 1.5).map(lambda v: round(v, 4))
    )
    digit = st.lists(coordinate, min_size=dim, max_size=dim).filter(any)
    digits = draw(st.lists(digit, min_size=1, max_size=3, unique_by=tuple))
    return validate_pair(matrix, [[0.0] * dim, *digits])
