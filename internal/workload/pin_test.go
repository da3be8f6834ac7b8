package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"partitionshare/internal/profileio"
	"partitionshare/internal/reuse"
	"partitionshare/internal/trace"
)

// pinnedDigest is one suite program's pinned output: the SHA-256 of its
// trace (each access as a little-endian uint32) and of its hotlprof
// profile body.
type pinnedDigest struct{ name, trace, profile string }

// pinnedDefault and pinnedTest pin every program at DefaultConfig and
// TestConfig. The digests were taken from the materialize-then-scan
// pipeline (trace.Generate, then reuse.Collect) before profiling became
// one streaming pass; any change to a generator, the scheduler or the
// scan kernel that moves one bit of a trace or a profile fails here.
var pinnedDefault = []pinnedDigest{
	{"lbm", "e8b7ed1d31f78c49d6056ce23e69d31b4ba3c5d425b93d2f215adfc218344d7c", "4436c49c7d91943bfe16cb9d4de4d25ad93738b40353d8cfc30aab0f7dcccd78"},
	{"sphinx3", "89b28b5c59748d0dd3ede604b7947419637ed65ee01b57205e37431dc7673973", "81e6b4b3ee32460875e0de5c9c5321f95478a787e8e3e4ec81d67ffa1b9f4770"},
	{"mcf", "6bd06d120e01b32962119287aa56c0a71107e269c5489ffdc9da4f62124d700c", "86e7d81a60e1173054b3cf6d21e2cbf0fa521c314f4bd9c466b14192bf307be1"},
	{"soplex", "2d8f679000dfdef06c4a95784c31e04c634129237f130b6880499448c46758d7", "8bd4650a46b0068313379d89f28ecb7b8dea96245a7850d7809fc4d4c73e3fb7"},
	{"omnetpp", "f8e66b1772cc051d00013d5ceea33b9a3c8be04b8e4930fefe011857f4a68821", "ecb8242e6cb92940f719653f50604b64b5834073ac737c947a667c02a5c1def0"},
	{"perlbench", "bb0001fe8ebda8fac11df89d25a3a11efa5dbe44f4ad4ad9deb27808c2bc3a2f", "c3119e577aa7b0f81c5e942ec071b4ce3b8ce5d94885cb8616478647ae96e03d"},
	{"zeusmp", "c17e8705d76b336da71b2b2b98f62971c0fce188760e62e465dad1f088949a96", "fd7d56f8c7e67736bb7e4942d421e211c8c407743724e390e46f59cc76a91722"},
	{"bzip2", "b9acfd612d8143064e6cd5b94e5027ea0c49cea86a44be5111ef8f3eac43a37f", "49fef40f62f04e077892de15e19cdd1cfd879dae6cdfea092302bd1e3c9a0bde"},
	{"dealII", "eba754d4c2150a8ab5f54acad530bcb7643204b53a47e8d5e9d8dd848732a7b0", "cdd19dfb7260a02513648811f96f44fc1e370d2912e274db7f7a942d8dfc12b2"},
	{"wrf", "01e1d1c7cc69b24339d4b5a146094d5949b1180554b0f1cfcdf586ed30c7e347", "c95714ea0ceebf5d7a2007aea97c7087caa158dc9d2408f2957e8a04c8a9d664"},
	{"h264ref", "5ab78937cc1e8bfdf7df8807155ae78064569d4fd6f2e5bb388f4d77f39da289", "37309653939f8051c7112b5c46da4fc46dcd32e913c00fc1d50150ac6040b43e"},
	{"hmmer", "0a2254564940c67a0370f86bf28794dd3b9d30ea74240b9eec3518b149fa37cd", "9910f9e8f50bcf0753df314e13f154a2852005fbf23957aba34f644d6dcd7ae3"},
	{"tonto", "7b2b4ee0dd16f5efa06dd326dbf2eabeeea5bc7e97b9caf9b203978de7cd7b70", "cecc3d01dbc0ccef9a73f938df9bfab89972a9a78087a30da8ec0918797e2d05"},
	{"povray", "300f99ead2b59a62513ee44e49ecc08fe69bdc3ab1d7b02500ff878a3547c3bf", "8b3ebf0426706876fe626f41e893bf6b0afef95ba4bd5d7e182cfc7e321155e5"},
	{"sjeng", "d0184fc20c68cfd94864ced2cfda2a5fbf0038d9b573d93ccbcaf7af324cc5be", "71830a870d0bbc01dc5a1d13889bf1f0bc25d403a4bf9c0611b613803c8fa0e9"},
	{"namd", "4e5ff807823957ea19c18052782eddb06a4c5dcf500a07333961dcd15ee37c0e", "b0d1e3dcb765c13cf6d628c87fc8173a5a183d2a802dcfba7e72d1cef2b2ec32"},
}

var pinnedTest = []pinnedDigest{
	{"lbm", "90b3bb6a8999133cf61534d6b562aa3ac2968e8680f559f5d960ccd443083881", "6a9e0d772b0d093e24e93ae6640075a041787353ee12025135fe826ec04b0d08"},
	{"sphinx3", "165e775fe58e3b37995e74a7215e78a7761643d749d2eaa62e39662cf5dc562d", "9c8de3bbe5116ca0c7c442a320391ecdcd3cc8193e99fc3f9c51a1ef9f766099"},
	{"mcf", "4c8a3132240db8a8346401b2f86c36fd4371d87a30d18788c564998c6b731103", "6d0b12a63dd138a3735a1c42f3d3d0d34f7710007246d1814586106e69c0c9c3"},
	{"soplex", "42753b8c9ed5a97af3ad9be5463a2c049ab5504eed9facb85ddac76501a056c3", "4c25433e7746e7d35b3f24ad7c2d3a12a708fe6838fc8e2bf3f316ef8b9612db"},
	{"omnetpp", "2809bc98dc3ccb276bd7a4bf9d9633c2f147045e9817d562c8049b25cea47502", "08d1961d651d38079edbece962f45b5f688dcf05d7aac9e3382bc07b4be986f5"},
	{"perlbench", "766cf0777ccfdce3770e282677809712a89c6f3a9364227ac38fb73d203bd7e3", "b2a0d621821c28eaa775e7b416aea98152cf164d410885f50d91de661cd5be2e"},
	{"zeusmp", "0b9ff70a0fcd1d8258dcbc80499b046a84e9184539c79e59d4fc88a52b501a2a", "a0823051bea31996173cce13d9e0d0ff0d501debbf93c7d7b3fa48808fbec0f8"},
	{"bzip2", "c3d61f413bfeb20f388c7228a557d07f305dd8b0dec3d5c093f2defdad79872a", "ec1d868c3ee3a179fd569205056d093881975e070918f1d561c12d10925bd173"},
	{"dealII", "ab94cd3a2ccd5facd88e721954034721a4e64e8ec103243cdc9965d76c8c5638", "14f5b4d971985e6281ecec908ad891ec407c289a50e438346c958778c1afe397"},
	{"wrf", "44f7df1c07449b1e17720e26a9d5b31d7f31b0daa00a03280acc3a9363040f65", "babd6f11448015d22cbb41f2e8848511b43e25bd71a4775689c8d805f9dc0610"},
	{"h264ref", "129aa7d90b92f3dde5200c7160eea932b18db4fc2a15a72f2b1387fbc147a77d", "b2c19b0eed6f0aa208186d952c5ec1bb2850a8c655349a7a5ba61836d808436b"},
	{"hmmer", "75d46a26516901d6cc223791cc0e0b38f62a6e7a34553040c162e28a8c9359fb", "5849973f4c877c1f238b271e51c69eee6744a00db2bd2cadf4c75827b9c475ec"},
	{"tonto", "8fbf8a32a5243ddd60517909bb456284389923a330fecf604b353fdd881aecb8", "de2b8a6d5243e52af1dfcc9d0f4a6efd38d48f4751dd8030c8af13f6d1cb45eb"},
	{"povray", "c12a8611439557e59de39635c38d292f1caee5edd908d6da36adfba7a67f3694", "86067f7cba1d1e9659b80ea537416494c10c33c1c1d600ae13c99d556f85a787"},
	{"sjeng", "b907d3e9b7c419c21d07e7e7469da470a24eaf90c77a33de5a7004944583d4a8", "96d47778ce1965aadac2b75db219f960c97f5e4f71e34ff6aa236bdeab94373a"},
	{"namd", "5940533ef6afde8bf3227668a3212d761ad77e795d63369289ad61d2f7d894f4", "faf432205b335686cba6f8182d1045a22b536426dfe38e883257e95244149963"},
}

// TestPinnedTraceAndProfileDigests regenerates every program's trace with
// the seed profiling uses and checks its digest, then checks that the
// streaming profile, and Collect over the materialized trace, both
// serialize to the pinned profile body. Under -race and -short it runs
// at TestConfig.
func TestPinnedTraceAndProfileDigests(t *testing.T) {
	cfg, pins := DefaultConfig(), pinnedDefault
	if raceEnabled || testing.Short() {
		cfg, pins = TestConfig(), pinnedTest
	}
	specs := Specs()
	if len(specs) != len(pins) {
		t.Fatalf("%d specs, %d pinned digests", len(specs), len(pins))
	}
	for i, spec := range specs {
		pin := pins[i]
		if spec.Name != pin.name {
			t.Fatalf("spec %d is %s, pinned %s", i, spec.Name, pin.name)
		}
		tr := trace.Generate(generator(spec, cfg), cfg.TraceLen)
		if got := traceDigest(tr); got != pin.trace {
			t.Errorf("%s: trace digest %s, pinned %s", spec.Name, got, pin.trace)
		}
		for _, c := range []struct {
			path string
			p    reuse.Profile
		}{
			{"streaming", collect(spec, cfg)},
			{"Collect", reuse.Collect(tr)},
		} {
			if got := profileDigest(t, spec, c.p); got != pin.profile {
				t.Errorf("%s: %s profile digest %s, pinned %s", spec.Name, c.path, got, pin.profile)
			}
		}
	}
}

func traceDigest(tr trace.Trace) string {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	for _, d := range tr {
		buf = binary.LittleEndian.AppendUint32(buf, d)
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

func profileDigest(t *testing.T, spec Spec, p reuse.Profile) string {
	t.Helper()
	var body bytes.Buffer
	if err := profileio.Write(&body, profileio.Profile{Name: spec.Name, Rate: spec.Rate, Reuse: p}); err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	sum := sha256.Sum256(body.Bytes())
	return hex.EncodeToString(sum[:])
}
