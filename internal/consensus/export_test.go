package consensus

// DecidedCap lets the black-box tests fill the decided-key cache.
const DecidedCap = decidedCap

// PipelineDepth is how many ballot rounds a coalescer keeps in flight.
const PipelineDepth = maxInflight
