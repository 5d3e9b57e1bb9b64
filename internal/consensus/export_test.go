package consensus

// DecidedCap lets the black-box tests fill the decided-key cache.
const DecidedCap = decidedCap
