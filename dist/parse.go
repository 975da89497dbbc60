package dist

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// maxZipfBins caps zipf:K so a flag value cannot make Parse allocate
// without bound: NewZipf builds two float64 slices of length K.
const maxZipfBins = 1 << 16

// Parse builds a Distribution from its flag syntax, the format shared by
// cmd/swsim and cmd/swbench:
//
//	uniform
//	power:A          0 <= A < 1
//	exp:L            L > 0
//	normal:MU,SIGMA  SIGMA > 0, with mass in [0,1)
//	zipf:K,S         1 <= K <= 65536, S >= 0
//
// Every parameter must be finite. Parse reports a bad spec as an error
// and never panics. The names match Distribution.Name up to argument
// formatting.
func Parse(s string) (Distribution, error) {
	name, arg, _ := strings.Cut(s, ":")
	switch name {
	case "uniform":
		return Uniform{}, nil
	case "power":
		a, err := parseFinite(arg)
		if err != nil {
			return nil, fmt.Errorf("power needs an exponent: %w", err)
		}
		if a < 0 || a >= 1 {
			return nil, fmt.Errorf("power exponent %v outside [0,1)", a)
		}
		return NewPower(a), nil
	case "exp":
		l, err := parseFinite(arg)
		if err != nil {
			return nil, fmt.Errorf("exp needs a rate: %w", err)
		}
		if l <= 0 {
			return nil, fmt.Errorf("exp rate %v must be positive", l)
		}
		return NewTruncExp(l), nil
	case "normal":
		parts := strings.Split(arg, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("normal needs mu,sigma")
		}
		mu, err1 := parseFinite(parts[0])
		sigma, err2 := parseFinite(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("normal needs finite numeric mu,sigma")
		}
		d, err := newTruncNormal(mu, sigma)
		if err != nil {
			return nil, err
		}
		return d, nil
	case "zipf":
		parts := strings.Split(arg, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("zipf needs k,s")
		}
		k, err1 := strconv.Atoi(parts[0])
		s2, err2 := parseFinite(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("zipf needs numeric k and finite s")
		}
		if k < 1 || k > maxZipfBins || s2 < 0 {
			return nil, fmt.Errorf("zipf needs 1 <= k <= %d and s >= 0", maxZipfBins)
		}
		return NewZipf(k, s2), nil
	default:
		return nil, fmt.Errorf("unknown distribution %q", name)
	}
}

// parseFinite parses a float parameter, rejecting NaN and ±Inf, which
// strconv.ParseFloat accepts.
func parseFinite(s string) (float64, error) {
	x, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
		err = fmt.Errorf("%v is not finite", x)
	}
	return x, err
}
