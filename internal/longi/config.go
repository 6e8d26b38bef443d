package longi

import "ppchecker/internal/core"

// Config is the checker configuration the engine fingerprints into
// every stage key (see core.Config).
type Config = core.Config
