import pytest

from squarefibers.ffpoly import field_make


@pytest.fixture(scope="session")
def F3():
    return field_make(3, 1)


@pytest.fixture(scope="session")
def F5():
    return field_make(5, 1)


@pytest.fixture(scope="session")
def F9():
    return field_make(3, 2)


@pytest.fixture(scope="session")
def F25():
    return field_make(5, 2)


class RefField:
    """F_{p^k} by base-p digits: a0 + a1 p + ... encodes a0 + a1 y + ...
    modulo the field's monic modulus in y."""

    def __init__(self, F):
        self.p, self.k, self.q = F.p, F.k, F.q
        self.modulus = F.modulus_coeffs

    def digits(self, a):
        return [(a // self.p**i) % self.p for i in range(self.k)]

    def encode(self, digits):
        return sum(d * self.p**i for i, d in enumerate(digits))

    def add(self, a, b):
        return self.encode(
            [(x + y) % self.p for x, y in zip(self.digits(a), self.digits(b))]
        )

    def neg(self, a):
        return self.encode([(-x) % self.p for x in self.digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(2 * k - 2, k - 1, -1):  # y^i = y^(i-k) * (y^k - modulus)
            c = prod[i]
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * self.modulus[j]) % p
        return self.encode(prod[:k])

    def pow(self, a, e):
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a):
        return self.pow(a, self.q - 2)

    def order(self, a):
        """Multiplicative order of a nonzero a, by repeated products."""
        x, e = a, 1
        while x != 1:
            x, e = self.mul(x, a), e + 1
        return e
