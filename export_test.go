package preexec

// TimingFor is the timing configuration the engine derives from cfg for a
// run in mode, so tests can repeat an engine's runs through
// timing.RunContext.
func TimingFor(cfg Config, mode Mode) TimingConfig { return cfg.Normalized().timing(mode) }
