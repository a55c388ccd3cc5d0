from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
    extensions = cythonize(
        [Extension("qflag._poly_cy", ["src/qflag/_poly_cy.pyx"])],
        language_level="3",
    )
except ImportError:
    # without Cython, compile the shipped generated C; optional, so a failed
    # compile leaves the pure-Python twin, which is selected at import
    extensions = [Extension("qflag._poly_cy", ["src/qflag/_poly_cy.c"],
                            optional=True)]

setup(ext_modules=extensions)
