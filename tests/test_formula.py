import pytest

from funcavg.dataset import Dataset
from funcavg.errors import ParameterError
from funcavg.formula import ModelSpec, Term


def test_product_term_evaluates_and_labels_its_factors():
    ds = Dataset({"t": [0.0, 1.0, 1.0], "l": [2.0, -3.0, 0.5]})
    term = Term(("t", "l", "l"))
    assert term.label == "t:l:l"
    assert term.evaluate(ds).tolist() == [0.0, 9.0, 0.25]
    assert ds.column("t").tolist() == [0.0, 1.0, 1.0]  # factors are not scaled in place
    assert term.mentions("l") and not term.mentions("y")


def test_model_spec_rejects_duplicate_and_empty_terms():
    with pytest.raises(ParameterError, match="duplicate model terms: t:l"):
        ModelSpec("y", (Term(("t",)), Term(("t", "l")), Term(("t", "l"))))
    with pytest.raises(ParameterError, match="at least one factor"):
        Term(())
