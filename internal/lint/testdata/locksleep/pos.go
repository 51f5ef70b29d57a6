// Clean case for the locksleep analyzer: time.Sleep outside _test.go
// files is not locksleep's business (pacing a sampling loop is
// legitimate). The positive case lives in sleep_test.go.
package fixture

import "time"

func pace() { time.Sleep(time.Millisecond) }
