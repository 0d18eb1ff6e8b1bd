package simnet

import "flexio/internal/flight"

// The engine's Now satisfies flight.Clock, so a simulated run can put
// its journal on virtual time with Journal.SetClock(engine): events then
// carry modeled seconds instead of wall-clock noise, and a Chrome trace
// of a simulation lines up with its cost model.
var _ flight.Clock = (*Engine)(nil)
