package desmodel

// SetIgnoreOffer flips the test-only hook that makes every EngineSim step
// once per iteration (see ignoreOffer); external tests use it to show whole
// experiment families do not depend on the offer being taken.
func SetIgnoreOffer(on bool) { ignoreOffer = on }
