"""Exception hierarchy for the privcredit engine."""


class PrivCreditError(Exception):
    """Base class for all engine errors. Each class declares the exit status
    and the label of the one line the command line reports it with."""

    exit_code, label = 2, "error"


class DataValidationError(PrivCreditError):
    """Malformed or out-of-domain input data (names the offending cell)."""

    exit_code = 1


class InfeasibleLinearizationError(PrivCreditError):
    """Expected payout exceeds expected value at some period.

    Raised when exp(payout gap) >= 1 in any component, which makes the
    log-linearization undefined. Carries the period and component.
    """

    label = "numerical error"

    def __init__(self, period, component, value):
        self.period = period
        self.component = component
        self.value = value
        name = ("equity", "liability")[component]
        super().__init__(
            f"infeasible linearization at period {period}, {name} component: "
            f"exp(payout gap) = {value:.6g} >= 1"
        )


class IllConditionedInnovationError(PrivCreditError):
    """Innovation covariance numerically singular in the Kalman filter."""

    label = "numerical error"


class DegenerateDesignError(PrivCreditError):
    """Normal equations of the M-step are numerically singular."""

    label = "numerical error"


class NoSolutionError(PrivCreditError):
    """Root finding target outside the attainable range."""

    exit_code, label = 3, "no solution"
