package main

// Example pins what the program prints at its default settings.
func Example() {
	main()
	// Output:
	// == link budget at 4 ft ==
	// tag signal at reader : -65.3 dBm
	// SNR in 2 GHz         : 10.6 dB
	// SNR in 200 MHz       : 20.6 dB
	// SNR in 20 MHz        : 30.6 dB
	// achievable rate      : 1.00 Gb/s (via 2 GHz receiver bandwidth)
	//
	// == waveform-level burst (200 MHz receiver) ==
	// decoded              : true (CRC true)
	// tag ID               : 1
	// payload              : "hello from a batteryless tag"
	// bit errors           : 0 / 224
	// measured SNR         : 20.7 dB (budget predicted 20.6 dB)
}
