import numpy as np
import pytest

from ruinlab import Exponential, Gamma, Pareto, RiskModel, Weibull


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture
def model_exp_exp():
    """Exp(1) claims, Exp(1) waits, safety loading 1/2 (c = 1.5)."""
    return RiskModel.from_safety_loading(Exponential(1.0), Exponential(1.0), 0.5)


@pytest.fixture
def model_exp_gamma():
    """Exp(1) claims, Ga(2,1) waits, safety loading 1/2 (c = 0.75)."""
    return RiskModel.from_safety_loading(Exponential(1.0), Gamma(2.0, 1.0), 0.5)


@pytest.fixture
def model_pareto_weibull():
    """Pa(3/2,3) claims, Wei(0.375,1/2) waits, safety loading 1/2."""
    return RiskModel.from_safety_loading(Pareto(1.5, 3.0), Weibull(0.375, 0.5), 0.5)


@pytest.fixture
def model_exp_weibull():
    """Exp(1) claims, Wei(0.375,1/2) waits (the table4 wait law), safety loading 1/2."""
    return RiskModel.from_safety_loading(Exponential(1.0), Weibull(0.375, 0.5), 0.5)
